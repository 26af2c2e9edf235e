//! The monomorphized kernel must be a pure optimisation: for any graph,
//! process, observer set and seed, [`run_observed`] driving a walk with a
//! tuple observer set and a concrete RNG must produce the **identical
//! `Step` stream** and the identical [`ObservedRun`] as the plain
//! reference loop `run_observed_dyn` (`&mut dyn RngCore`, dyn-observer
//! slice, all-observers `satisfied()` poll). Seeded cases pin the exact
//! shapes the engine uses; the proptest sweeps random graphs × processes
//! × seeds.

mod common;

use common::{StepRecorder, TestWalk};
use eproc_core::cover::CoverTarget;
use eproc_core::observe::{
    run_observed, BlanketObserver, CoverObserver, HitTarget, HittingObserver, ObservedRun,
    Observer, PhaseObserver, StopWhen,
};
use eproc_core::rule::UniformRule;
use eproc_core::{EProcess, StepKind, WalkProcess};
use eproc_graphs::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The reference the kernel is checked against: a `&mut dyn RngCore`,
/// dyn-observer fan-out and an all-observers `satisfied()` poll per step.
/// It checks the kernel's tuple fan-out and its `CompletionToken` stop.
fn run_observed_dyn<W: WalkProcess>(
    walk: &mut W,
    observers: &mut [&mut dyn Observer],
    stop: StopWhen,
    cap: u64,
    rng: &mut dyn RngCore,
) -> ObservedRun {
    {
        let g = walk.graph();
        let start = walk.current();
        for obs in observers.iter_mut() {
            obs.begin(g, start);
        }
    }
    let mut t = 0u64;
    while t < cap {
        let done = match stop {
            StopWhen::AllSatisfied => observers.iter().all(|o| o.satisfied()),
            StopWhen::Cap => false,
        };
        if done {
            break;
        }
        let step = walk.advance(rng);
        t += 1;
        for obs in observers.iter_mut() {
            obs.on_step(t, &step);
        }
    }
    ObservedRun {
        steps: t,
        final_vertex: walk.current(),
    }
}

/// Runs the same (graph, process, seed, stop, cap) through the
/// monomorphized tuple kernel and the dyn path; asserts identical step
/// streams, runs, metrics and RNG consumption.
fn assert_kernel_equivalence(g: &Graph, which: usize, seed: u64, stop: StopWhen, cap: u64) {
    // Monomorphized: tuple observer set, concrete RNG.
    let mut rng_a = SmallRng::seed_from_u64(seed);
    let mut walk_a = TestWalk::build(g, which);
    let mut cover_a = CoverObserver::new(CoverTarget::Both);
    let mut hit_a = HittingObserver::new(HitTarget::LastVertex);
    let mut rec_a = StepRecorder::default();
    let run_a: ObservedRun = run_observed(
        &mut walk_a,
        &mut (&mut cover_a, &mut hit_a, &mut rec_a),
        stop,
        cap,
        &mut rng_a,
    );

    // Dynamic baseline.
    let mut rng_b = SmallRng::seed_from_u64(seed);
    let mut walk_b = TestWalk::build(g, which);
    let mut cover_b = CoverObserver::new(CoverTarget::Both);
    let mut hit_b = HittingObserver::new(HitTarget::LastVertex);
    let mut rec_b = StepRecorder::default();
    let run_b = run_observed_dyn(
        &mut walk_b,
        &mut [&mut cover_b, &mut hit_b, &mut rec_b],
        stop,
        cap,
        &mut rng_b,
    );

    assert_eq!(run_a, run_b, "ObservedRun diverged (process {which})");
    assert_eq!(
        rec_a.steps, rec_b.steps,
        "Step stream diverged (process {which})"
    );
    assert_eq!(cover_a.cover_metrics(), cover_b.cover_metrics());
    assert_eq!(hit_a.steps_to_hit(), hit_b.steps_to_hit());
    assert_eq!(walk_a.steps(), walk_b.steps());
    assert_eq!(walk_a.current(), walk_b.current());
    // Both paths consumed the same number of RNG draws.
    assert_eq!(rng_a.next_u64(), rng_b.next_u64());
}

#[test]
fn seeded_equivalence_across_all_processes() {
    let mut graph_rng = SmallRng::seed_from_u64(1);
    let g = generators::connected_random_regular(80, 4, &mut graph_rng).unwrap();
    for which in 0..8 {
        for seed in [3u64, 4, 5] {
            assert_kernel_equivalence(&g, which, seed, StopWhen::AllSatisfied, 10_000_000);
        }
    }
}

#[test]
fn seeded_equivalence_under_truncation() {
    let g = generators::torus2d(6, 6);
    for cap in [0u64, 1, 17, 500] {
        for which in 0..8 {
            assert_kernel_equivalence(&g, which, 9, StopWhen::Cap, cap);
        }
    }
}

#[test]
fn fully_monomorphized_eprocess_matches_dyn_trajectory() {
    // The sharpest form: the concrete EProcess the engine runs, against
    // the dyn driver, with the full five-observer tuple.
    let mut graph_rng = SmallRng::seed_from_u64(2);
    let g = generators::connected_random_regular(60, 3, &mut graph_rng).unwrap();
    for seed in 0..5u64 {
        let mut rng_a = SmallRng::seed_from_u64(100 + seed);
        let mut walk_a = EProcess::new(&g, 0, UniformRule::new());
        let mut cover_a = CoverObserver::new(CoverTarget::Both);
        let mut blanket_a = BlanketObserver::new(0.3).unwrap();
        let mut phases_a = PhaseObserver::new();
        let mut hit_a = HittingObserver::new(HitTarget::LastVertex);
        let mut rec_a = StepRecorder::default();
        let run_a = run_observed(
            &mut walk_a,
            &mut (
                &mut cover_a,
                &mut blanket_a,
                &mut phases_a,
                &mut hit_a,
                &mut rec_a,
            ),
            StopWhen::AllSatisfied,
            10_000_000,
            &mut rng_a,
        );

        let mut rng_b = SmallRng::seed_from_u64(100 + seed);
        let mut walk_b = EProcess::new(&g, 0, UniformRule::new());
        let mut cover_b = CoverObserver::new(CoverTarget::Both);
        let mut blanket_b = BlanketObserver::new(0.3).unwrap();
        let mut phases_b = PhaseObserver::new();
        let mut hit_b = HittingObserver::new(HitTarget::LastVertex);
        let mut rec_b = StepRecorder::default();
        let run_b = run_observed_dyn(
            &mut walk_b,
            &mut [
                &mut cover_b,
                &mut blanket_b,
                &mut phases_b,
                &mut hit_b,
                &mut rec_b,
            ],
            StopWhen::AllSatisfied,
            10_000_000,
            &mut rng_b,
        );

        assert_eq!(run_a, run_b, "seed {seed}");
        assert_eq!(rec_a.steps, rec_b.steps, "seed {seed}");
        assert!(rec_a.steps.iter().any(|s| s.kind == StepKind::Blue));
        assert_eq!(cover_a.cover_metrics(), cover_b.cover_metrics());
        assert_eq!(blanket_a.steps_to_blanket(), blanket_b.steps_to_blanket());
        assert_eq!(phases_a.trace(), phases_b.trace());
        assert_eq!(hit_a.steps_to_hit(), hit_b.steps_to_hit());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graph shape × process × seed: the tuple-observer kernel and
    /// the dyn-slice path produce identical `Step` streams and
    /// `ObservedRun`s.
    #[test]
    fn kernel_matches_dyn_path(
        shape in 0usize..4,
        which in 0usize..8,
        graph_seed in 0u64..300,
        run_seed in 0u64..300,
    ) {
        let g = match shape {
            0 => {
                let mut rng = SmallRng::seed_from_u64(graph_seed);
                generators::connected_random_regular(40, 4, &mut rng).unwrap()
            }
            1 => {
                let mut rng = SmallRng::seed_from_u64(graph_seed);
                generators::connected_random_regular(30, 3, &mut rng).unwrap()
            }
            2 => generators::hypercube(4),
            _ => generators::torus2d(5, 4),
        };
        assert_kernel_equivalence(&g, which, run_seed, StopWhen::AllSatisfied, 10_000_000);
        assert_kernel_equivalence(&g, which, run_seed, StopWhen::Cap, 64);
    }
}
