//! The observer pipeline must reproduce the legacy measurement loops
//! step-for-step: `run_cover` / `blanket_time` / `trace_phases` are thin
//! wrappers now, so we pin their outputs against verbatim copies of the
//! pre-refactor loops on identical seeded trajectories.

mod common;

use common::TestWalk;
use eproc_core::cover::{blanket_time, run_cover, CoverRun, CoverTarget};
use eproc_core::rule::UniformRule;
use eproc_core::segments::{trace_phases, Phase, PhaseTrace};
use eproc_core::srw::SimpleRandomWalk;
use eproc_core::{EProcess, StepKind, WalkProcess};
use eproc_graphs::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Verbatim copy of the pre-refactor `run_cover` loop.
fn legacy_run_cover<W: WalkProcess>(
    walk: &mut W,
    target: CoverTarget,
    max_steps: u64,
    rng: &mut dyn RngCore,
) -> CoverRun {
    let g = walk.graph();
    let n = g.n();
    let m = g.m();
    let mut vertex_seen = vec![false; n];
    let mut edge_seen = vec![false; m];
    let mut vertices_visited = 1usize;
    vertex_seen[walk.current()] = true;
    let mut edges_visited = 0usize;
    let mut steps_to_vertex_cover = if vertices_visited == n { Some(0) } else { None };
    let mut steps_to_edge_cover = if m == 0 { Some(0) } else { None };
    let mut blue_steps = 0u64;
    let mut red_steps = 0u64;
    let mut t = 0u64;
    let done = |v: Option<u64>, e: Option<u64>| match target {
        CoverTarget::Vertices => v.is_some(),
        CoverTarget::Edges => e.is_some(),
        CoverTarget::Both => v.is_some() && e.is_some(),
    };
    while !done(steps_to_vertex_cover, steps_to_edge_cover) && t < max_steps {
        let step = walk.advance(rng);
        t += 1;
        match step.kind {
            StepKind::Blue => blue_steps += 1,
            StepKind::Red => red_steps += 1,
        }
        if !vertex_seen[step.to] {
            vertex_seen[step.to] = true;
            vertices_visited += 1;
            if vertices_visited == n {
                steps_to_vertex_cover = Some(t);
            }
        }
        if let Some(e) = step.edge {
            if !edge_seen[e] {
                edge_seen[e] = true;
                edges_visited += 1;
                if edges_visited == m {
                    steps_to_edge_cover = Some(t);
                }
            }
        }
    }
    CoverRun {
        steps: t,
        steps_to_vertex_cover,
        steps_to_edge_cover,
        blue_steps,
        red_steps,
        vertices_visited,
        edges_visited,
        final_vertex: walk.current(),
    }
}

/// Verbatim copy of the pre-refactor `blanket_time` loop.
fn legacy_blanket_time<W: WalkProcess>(
    walk: &mut W,
    delta: f64,
    max_steps: u64,
    rng: &mut dyn RngCore,
) -> Option<u64> {
    let (n, pi) = {
        let g = walk.graph();
        let two_m = g.total_degree() as f64;
        let pi: Vec<f64> = g.vertices().map(|v| g.degree(v) as f64 / two_m).collect();
        (g.n(), pi)
    };
    let mut visits = vec![0u64; n];
    visits[walk.current()] = 1;
    let check_every = n.max(1) as u64;
    let mut t = 0u64;
    while t < max_steps {
        let step = walk.advance(rng);
        t += 1;
        visits[step.to] += 1;
        if t.is_multiple_of(check_every) {
            let ok = (0..n).all(|v| visits[v] as f64 >= delta * pi[v] * t as f64);
            if ok {
                return Some(t);
            }
        }
    }
    None
}

/// Verbatim copy of the pre-refactor `trace_phases` loop.
fn legacy_trace_phases(
    walk: &mut EProcess<'_, UniformRule>,
    max_steps: u64,
    rng: &mut dyn RngCore,
) -> PhaseTrace {
    assert_eq!(walk.steps(), 0, "phase tracing requires a fresh walk");
    let mut phases: Vec<Phase> = Vec::new();
    let mut current: Option<Phase> = None;
    let mut t = 0u64;
    while walk.unvisited_edge_count() > 0 && t < max_steps {
        let from = walk.current();
        let step = walk.advance(rng);
        t += 1;
        match current.as_mut() {
            Some(phase) if phase.kind == step.kind => {
                phase.length += 1;
                phase.end_vertex = step.to;
            }
            _ => {
                if let Some(done) = current.take() {
                    phases.push(done);
                }
                current = Some(Phase {
                    kind: step.kind,
                    start_vertex: from,
                    end_vertex: step.to,
                    length: 1,
                });
            }
        }
    }
    if let Some(done) = current.take() {
        phases.push(done);
    }
    PhaseTrace { phases, steps: t }
}

fn assert_cover_equivalence(g: &Graph, seed: u64, target: CoverTarget, cap: u64) {
    // Process kinds 0 and 1: the E-process and the SRW.
    for which in [0, 1] {
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut walk_a = TestWalk::build(g, which);
        let legacy = legacy_run_cover(&mut walk_a, target, cap, &mut rng_a);
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let mut walk_b = TestWalk::build(g, which);
        let observed = run_cover(&mut walk_b, target, cap, &mut rng_b);
        assert_eq!(legacy, observed, "cover mismatch (process {which})");
        // Step-for-step: both walks consumed the same RNG stream.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        assert_eq!(walk_a.steps(), walk_b.steps());
        assert_eq!(walk_a.current(), walk_b.current());
    }
}

fn assert_blanket_equivalence(g: &Graph, seed: u64, delta: f64, cap: u64) {
    let mut rng_a = SmallRng::seed_from_u64(seed);
    let mut walk_a = SimpleRandomWalk::new(g, 0);
    let legacy = legacy_blanket_time(&mut walk_a, delta, cap, &mut rng_a);
    let mut rng_b = SmallRng::seed_from_u64(seed);
    let mut walk_b = SimpleRandomWalk::new(g, 0);
    let observed = blanket_time(&mut walk_b, delta, cap, &mut rng_b).expect("valid delta");
    assert_eq!(legacy, observed, "blanket mismatch");
    assert_eq!(walk_a.steps(), walk_b.steps());
    assert_eq!(rng_a.next_u64(), rng_b.next_u64());
}

fn assert_phase_equivalence(g: &Graph, seed: u64, cap: u64) {
    let mut rng_a = SmallRng::seed_from_u64(seed);
    let mut walk_a = EProcess::new(g, 0, UniformRule::new());
    let legacy = legacy_trace_phases(&mut walk_a, cap, &mut rng_a);
    let mut rng_b = SmallRng::seed_from_u64(seed);
    let mut walk_b = EProcess::new(g, 0, UniformRule::new());
    let observed = trace_phases(&mut walk_b, cap, &mut rng_b);
    assert_eq!(legacy, observed, "phase trace mismatch");
    assert_eq!(walk_a.steps(), walk_b.steps());
}

#[test]
fn seeded_equivalence_on_random_regular_graphs() {
    for (n, d, seed) in [(60, 4, 1u64), (100, 3, 2), (150, 6, 3)] {
        let mut graph_rng = SmallRng::seed_from_u64(seed);
        let g = generators::connected_random_regular(n, d, &mut graph_rng).unwrap();
        for run_seed in [10, 11, 12] {
            assert_cover_equivalence(&g, run_seed, CoverTarget::Vertices, 10_000_000);
            assert_cover_equivalence(&g, run_seed, CoverTarget::Edges, 10_000_000);
            assert_cover_equivalence(&g, run_seed, CoverTarget::Both, 10_000_000);
            assert_blanket_equivalence(&g, run_seed, 0.4, 10_000_000);
            assert_phase_equivalence(&g, run_seed, 10_000_000);
        }
    }
}

#[test]
fn seeded_equivalence_on_hypercubes() {
    for dim in [3usize, 4, 5] {
        let g = generators::hypercube(dim);
        for run_seed in [20, 21] {
            assert_cover_equivalence(&g, run_seed, CoverTarget::Both, 10_000_000);
            assert_blanket_equivalence(&g, run_seed, 0.3, 10_000_000);
            assert_phase_equivalence(&g, run_seed, 10_000_000);
        }
    }
}

#[test]
fn seeded_equivalence_under_truncation() {
    // Caps that cut runs mid-flight must truncate identically.
    let g = generators::torus2d(8, 8);
    for cap in [0u64, 1, 7, 64, 1000] {
        assert_cover_equivalence(&g, 5, CoverTarget::Both, cap);
        assert_blanket_equivalence(&g, 5, 0.4, cap);
        assert_phase_equivalence(&g, 5, cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_observed` + `CoverObserver`/`BlanketObserver` reproduces the
    /// legacy loops on random regular and hypercube graphs.
    #[test]
    fn observer_pipeline_matches_legacy_loops(
        shape in 0usize..4,
        graph_seed in 0u64..500,
        run_seed in 0u64..500,
    ) {
        let g = match shape {
            0 => {
                let mut rng = SmallRng::seed_from_u64(graph_seed);
                generators::connected_random_regular(40, 4, &mut rng).unwrap()
            }
            1 => {
                let mut rng = SmallRng::seed_from_u64(graph_seed);
                generators::connected_random_regular(50, 3, &mut rng).unwrap()
            }
            2 => generators::hypercube(4),
            _ => generators::hypercube(5),
        };
        assert_cover_equivalence(&g, run_seed, CoverTarget::Vertices, 10_000_000);
        assert_cover_equivalence(&g, run_seed, CoverTarget::Edges, 10_000_000);
        assert_blanket_equivalence(&g, run_seed, 0.35, 10_000_000);
        assert_phase_equivalence(&g, run_seed, 10_000_000);
    }
}
