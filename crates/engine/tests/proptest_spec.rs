//! Property tests for the spec grammar: `parse` and `to_cli` must be
//! exact inverses for every variant, and strict parsing must reject
//! malformed input rather than silently dropping it.

use eproc_engine::builtin;
use eproc_engine::digest::{spec_digest, ArtifactKind};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Scale,
    SweepRange, SweepStep, Target, MAX_SWEEP_POINTS,
};
use proptest::prelude::*;

/// Strategy: an arbitrary [`GraphSpec`] covering every variant. The
/// variant selector and the parameter draws are independent so shrinking
/// stays meaningful.
fn arb_graph_spec() -> impl Strategy<Value = GraphSpec> {
    (0usize..10, 1usize..10_000, 1usize..64, 1u64..1_000).prop_map(|(variant, n, small, prime)| {
        match variant {
            0 => GraphSpec::Regular {
                n: n.max(small + 1),
                d: small,
            },
            1 => GraphSpec::Lps {
                p: prime,
                q: prime + 4,
            },
            2 => GraphSpec::Geometric {
                n,
                // Factors with an exact decimal representation survive the
                // float round trip through `format!("{}")` + `parse`.
                radius_factor: (small as f64) / 4.0,
            },
            3 => GraphSpec::Hypercube {
                dim: (small % 20) + 1,
            },
            4 => GraphSpec::Torus {
                w: small + 2,
                h: (n % 50) + 2,
            },
            5 => GraphSpec::Cycle { n: n + 2 },
            6 => GraphSpec::Complete { n: small + 1 },
            7 => GraphSpec::Lollipop {
                clique: small,
                path: n % 100,
            },
            8 => GraphSpec::Petersen,
            _ => GraphSpec::FigureEight { len: small + 2 },
        }
    })
}

fn arb_process_spec() -> impl Strategy<Value = ProcessSpec> {
    (0usize..13, 1usize..8).prop_map(|(variant, d)| match variant {
        0 => ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        },
        1 => ProcessSpec::EProcess {
            rule: RuleSpec::FirstPort,
        },
        2 => ProcessSpec::EProcess {
            rule: RuleSpec::LastPort,
        },
        3 => ProcessSpec::EProcess {
            rule: RuleSpec::RoundRobin,
        },
        4 => ProcessSpec::EProcess {
            rule: RuleSpec::GreedyAdversary,
        },
        5 => ProcessSpec::Srw,
        6 => ProcessSpec::LazySrw,
        7 => ProcessSpec::WeightedSrw,
        8 => ProcessSpec::RotorRouter,
        9 => ProcessSpec::Rwc { d },
        10 => ProcessSpec::OldestFirst,
        11 => ProcessSpec::LeastUsedFirst,
        _ => ProcessSpec::VProcess,
    })
}

/// Strategy: a valid [`SweepRange`] whose end is exactly the last point,
/// so the expected point count is known in closed form.
fn arb_sweep_range() -> impl Strategy<Value = SweepRange> {
    (1usize..10_000, 2usize..6, 1usize..7, 1usize..500, 0usize..2).prop_map(
        |(start, factor, npoints, stride, kind)| match kind {
            0 => SweepRange {
                start,
                end: start * factor.pow(npoints as u32 - 1),
                step: SweepStep::Factor(factor),
            },
            _ => SweepRange {
                start,
                end: start + stride * (npoints - 1),
                step: SweepStep::Stride(stride),
            },
        },
    )
}

fn expected_points(r: &SweepRange) -> usize {
    match r.step {
        SweepStep::Factor(f) => {
            let mut k = 0;
            let mut cur = r.start;
            while cur <= r.end {
                k += 1;
                cur *= f;
            }
            k
        }
        SweepStep::Stride(d) => (r.end - r.start) / d + 1,
    }
}

fn arb_metric_spec() -> impl Strategy<Value = MetricSpec> {
    (0usize..5, 1usize..1_000, 1u32..99).prop_map(|(variant, v, delta)| match variant {
        0 => MetricSpec::Cover,
        1 => MetricSpec::Blanket {
            delta: delta as f64 / 100.0,
        },
        2 => MetricSpec::Phases,
        3 => MetricSpec::BlueCensus,
        _ => MetricSpec::Hitting {
            vertex: if v % 2 == 0 { None } else { Some(v) },
        },
    })
}

fn arb_target() -> impl Strategy<Value = Target> {
    (0usize..4, 1u32..99).prop_map(|(variant, delta)| match variant {
        0 => Target::VertexCover,
        1 => Target::EdgeCover,
        2 => Target::BothCover,
        // Hundredths have exact shortest-round-trip decimal forms.
        _ => Target::Blanket {
            delta: delta as f64 / 100.0,
        },
    })
}

fn arb_cap() -> impl Strategy<Value = CapSpec> {
    (0usize..3, 1usize..64, 1u64..1_000_000).prop_map(|(variant, q, abs)| match variant {
        0 => CapSpec::Auto,
        1 => CapSpec::NLogN(q as f64 / 4.0),
        _ => CapSpec::Absolute(abs),
    })
}

/// Strategy: a full [`ExperimentSpec`] with arbitrary (possibly
/// duplicated, unsorted) grids — the input space canonicalization must
/// collapse into the normal form.
fn arb_experiment_spec() -> impl Strategy<Value = ExperimentSpec> {
    (
        (
            proptest::collection::vec(arb_graph_spec(), 1..4),
            proptest::collection::vec(arb_process_spec(), 1..4),
            1usize..16,
            arb_target(),
        ),
        (
            proptest::collection::vec(arb_metric_spec(), 0..3),
            0usize..8,
            arb_cap(),
            0usize..7,
        ),
    )
        .prop_map(
            |((graphs, processes, trials, target), (metrics, start, cap, resample))| {
                ExperimentSpec {
                    name: "arbitrary".into(),
                    description: "proptest-generated".into(),
                    graphs,
                    processes,
                    trials,
                    target,
                    metrics,
                    start,
                    cap,
                    // 0 encodes "no resampling"; 1..7 is walks-per-graph.
                    resample: (resample > 0).then_some(ResamplePlan {
                        walks_per_graph: resample,
                    }),
                }
            },
        )
}

/// `line` with each list flag's repeats packed into one flag, as a user
/// may write it: `--graph a;b`, `--process a,b`, `--metrics a,b`. Every
/// flag of a [`ExperimentSpec::to_cli`] line takes exactly one value.
fn packed_cli(line: &str) -> String {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let mut lists = [("--graph", ";"), ("--process", ","), ("--metrics", ",")]
        .map(|(flag, sep)| (flag, sep, Vec::new()));
    let mut rest: Vec<&str> = Vec::new();
    for pair in tokens.chunks(2) {
        match lists.iter_mut().find(|(flag, _, _)| *flag == pair[0]) {
            Some((_, _, values)) => values.push(pair[1]),
            None => rest.extend(pair),
        }
    }
    let mut packed: Vec<String> = lists
        .iter()
        .filter(|(_, _, values)| !values.is_empty())
        .map(|(flag, sep, values)| format!("{flag} {}", values.join(sep)))
        .collect();
    packed.extend(rest.iter().map(|t| t.to_string()));
    packed.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn graph_spec_round_trips(spec in arb_graph_spec()) {
        let cli = spec.to_cli();
        prop_assert_eq!(GraphSpec::parse(&cli).unwrap(), spec.clone());
        // The resample-marked form parses to the same spec with the flag.
        if let Some((kind, args)) = cli.split_once(':') {
            let marked = format!("{kind}:~{args}");
            let (parsed, resample) = GraphSpec::parse_with_resample(&marked).unwrap();
            prop_assert_eq!(parsed, spec);
            prop_assert!(resample);
        }
    }

    #[test]
    fn graph_spec_rejects_trailing_junk(spec in arb_graph_spec(), junk in 0usize..1_000) {
        let cli = spec.to_cli();
        // Appending one more argument always exceeds the family's arity.
        let with_junk = if cli.contains(':') {
            format!("{cli},{junk}")
        } else {
            format!("{cli}:{junk}")
        };
        prop_assert!(
            GraphSpec::parse(&with_junk).is_err(),
            "trailing argument accepted: {}",
            with_junk
        );
    }

    #[test]
    fn process_spec_round_trips(spec in arb_process_spec()) {
        let cli = spec.to_cli();
        prop_assert_eq!(ProcessSpec::parse(&cli).unwrap(), spec);
    }

    #[test]
    fn metric_spec_round_trips(spec in arb_metric_spec()) {
        let cli = spec.to_cli();
        prop_assert_eq!(MetricSpec::parse(&cli).unwrap(), spec);
    }

    #[test]
    fn sweep_range_round_trips(range in arb_sweep_range()) {
        let cli = range.to_cli();
        prop_assert_eq!(SweepRange::parse(&cli).unwrap(), range);
        let points = range.points().unwrap();
        prop_assert_eq!(points.len(), expected_points(&range));
        prop_assert_eq!(points[0], range.start);
        prop_assert!(points.iter().all(|&p| p >= range.start && p <= range.end));
        prop_assert!(points.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        prop_assert!(points.len() <= MAX_SWEEP_POINTS);
    }

    #[test]
    fn descending_sweep_ranges_are_rejected(lo in 1usize..10_000, delta in 1usize..10_000) {
        let s = format!("{}..{},x2", lo + delta, lo);
        prop_assert!(SweepRange::parse(&s).is_err(), "accepted descending {}", s);
    }

    #[test]
    fn non_advancing_or_empty_sweeps_are_rejected(lo in 1usize..10_000) {
        prop_assert!(SweepRange::parse(&format!("{lo}..{},x1", lo * 4)).is_err());
        prop_assert!(SweepRange::parse(&format!("{lo}..{},+0", lo * 4)).is_err());
        prop_assert!(SweepRange::parse(&format!("0..{lo},x2")).is_err());
        prop_assert!(SweepRange::parse("").is_err());
    }

    #[test]
    fn overflowing_sweep_sizes_are_rejected(digits in 20usize..40) {
        // A size literal with 20+ digits overflows usize on every target.
        let huge = "9".repeat(digits);
        prop_assert!(SweepRange::parse(&format!("1..{huge},x2")).is_err());
        prop_assert!(SweepRange::parse(&format!("{huge}..{huge},x2")).is_err());
    }

    #[test]
    fn swept_graph_specs_expand_sizes(range in arb_sweep_range(), d in 3usize..7) {
        let s = format!("regular:~{{{}}},{d}", range.to_cli());
        let (specs, resample) = GraphSpec::parse_with_sweep(&s).unwrap();
        prop_assert!(resample);
        let points = range.points().unwrap();
        prop_assert_eq!(specs.len(), points.len());
        for (spec, &n) in specs.iter().zip(&points) {
            prop_assert_eq!(spec.clone(), GraphSpec::Regular { n, d });
        }
    }

    #[test]
    fn canonicalization_is_a_fixed_point(spec in arb_experiment_spec()) {
        // parse(to_cli(canonicalize(s))) == canonicalize(s), as full
        // struct equality: the derived name and description round-trip
        // too, because both sides recompute them from the same line.
        let canonical = spec.canonicalize();
        let reparsed = ExperimentSpec::parse_cli(&canonical.to_cli()).unwrap();
        prop_assert_eq!(&reparsed, &canonical);
        // Repeated list flags and packed ones spell the same spec.
        let packed = packed_cli(&canonical.to_cli());
        prop_assert_eq!(&ExperimentSpec::parse_cli(&packed).unwrap(), &canonical);
        // Idempotence: a second canonicalization changes nothing.
        prop_assert_eq!(canonical.canonicalize(), canonical);
    }

    #[test]
    fn digest_is_invariant_under_grid_order(
        spec in arb_experiment_spec(),
        rot_g in 0usize..4,
        rot_p in 0usize..4,
        rot_m in 0usize..4,
        seed in 0u64..1_000,
    ) {
        // Any permutation of the grids describes the same experiment
        // and must key the same cache entry.
        let mut shuffled = spec.clone();
        let g = shuffled.graphs.len();
        shuffled.graphs.rotate_left(rot_g % g);
        let p = shuffled.processes.len();
        shuffled.processes.rotate_left(rot_p % p);
        if !shuffled.metrics.is_empty() {
            let m = shuffled.metrics.len();
            shuffled.metrics.rotate_left(rot_m % m);
        }
        let q = [0.5, 0.9, 0.99];
        prop_assert_eq!(
            spec_digest(&spec, seed, &q, ArtifactKind::Ensemble),
            spec_digest(&shuffled, seed, &q, ArtifactKind::Ensemble)
        );
        // ...but the seed and the artifact kind are part of the key.
        prop_assert_ne!(
            spec_digest(&spec, seed, &q, ArtifactKind::Ensemble),
            spec_digest(&spec, seed + 1, &q, ArtifactKind::Ensemble)
        );
        prop_assert_ne!(
            spec_digest(&spec, seed, &q, ArtifactKind::Ensemble),
            spec_digest(&spec, seed, &q, ArtifactKind::Scaling)
        );
    }

    #[test]
    fn validated_randomized_specs_build(n in 3usize..40) {
        // Validation admitting a spec implies the generator succeeds.
        let d = 3 + (n % 2); // keep n*d even: odd n forces d = 4
        let spec = GraphSpec::Regular { n: n.max(d + 1), d };
        prop_assert!(spec.validate().is_ok(), "{:?}", spec);
        let g = spec.build(n as u64).unwrap();
        prop_assert_eq!(g.n(), n.max(d + 1));
    }
}

/// Every builtin digests identically whether named (`eproc run <name>`)
/// or spelled out as expanded flags (`eproc compare --graph … --process
/// …` with the canonical line): the two spellings must share one cache
/// entry at both scales.
#[test]
fn builtin_name_and_expanded_flag_spellings_digest_identically() {
    let quantiles = [0.5, 0.9, 0.99];
    for scale in [Scale::Quick, Scale::Paper] {
        for name in builtin::names() {
            let by_name = builtin::spec(name, scale).expect("listed specs exist");
            let expanded = ExperimentSpec::parse_cli(&by_name.canonicalize().to_cli())
                .unwrap_or_else(|e| panic!("{name}: canonical line must reparse: {e}"));
            for kind in [ArtifactKind::Ensemble, ArtifactKind::Scaling] {
                assert_eq!(
                    spec_digest(&by_name, 12345, &quantiles, kind),
                    spec_digest(&expanded, 12345, &quantiles, kind),
                    "{name} ({scale:?}, {kind:?}): spellings must share a digest"
                );
            }
        }
    }
}
