//! The interleaved multi-trial driver must be a pure optimisation: for
//! any graph, process, lane width and seeds, every lane of
//! [`run_observed_interleaved`] must produce the **identical `Step`
//! stream**, the identical [`ObservedRun`], identical observer outputs
//! and identical RNG consumption as running that trial alone through the
//! sequential [`run_observed`] kernel. Seeded cases pin every process
//! kind × every width the executor uses; the proptest sweeps random
//! graphs × processes × widths × seeds.

mod common;

use common::{StepRecorder, TestWalk};
use eproc_core::cover::CoverTarget;
use eproc_core::interleave::{run_observed_interleaved, Lane};
use eproc_core::observe::{run_observed, CoverObserver, Metrics, ObservedRun, Observer, StopWhen};
use eproc_core::{Step, WalkProcess};
use eproc_graphs::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The seed lane `i` of a width-`w` set runs on — distinct per lane so
/// the test exercises lanes that finish at different times.
fn lane_seed(base: u64, i: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))
}

/// Runs `w` trials of process `which` both ways — one at a time through
/// the sequential kernel, then all at once through the interleaved
/// driver — and asserts per-lane equality of step streams, runs, cover
/// metrics, final walk state and RNG consumption.
fn assert_interleave_equivalence(
    g: &Graph,
    which: usize,
    w: usize,
    base_seed: u64,
    stop: StopWhen,
    cap: u64,
) {
    struct SoloResult {
        run: ObservedRun,
        steps: Vec<Step>,
        cover: Metrics,
        walk_steps: u64,
        walk_current: usize,
        next_draw: u64,
    }
    let solo: Vec<SoloResult> = (0..w)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(lane_seed(base_seed, i));
            let mut walk = TestWalk::build(g, which);
            let mut cover = CoverObserver::new(CoverTarget::Both);
            let mut rec = StepRecorder::default();
            let run = run_observed(&mut walk, &mut (&mut cover, &mut rec), stop, cap, &mut rng);
            SoloResult {
                run,
                steps: rec.steps,
                cover: cover.finish(),
                walk_steps: walk.steps(),
                walk_current: walk.current(),
                next_draw: rng.next_u64(),
            }
        })
        .collect();

    let mut banks: Vec<(CoverObserver, StepRecorder)> = (0..w)
        .map(|_| {
            (
                CoverObserver::new(CoverTarget::Both),
                StepRecorder::default(),
            )
        })
        .collect();
    let mut lanes: Vec<Lane<'_, _, _, SmallRng>> = banks
        .iter_mut()
        .enumerate()
        .map(|(i, bank)| {
            Lane::new(
                TestWalk::build(g, which),
                bank,
                SmallRng::seed_from_u64(lane_seed(base_seed, i)),
            )
        })
        .collect();
    let runs = run_observed_interleaved(&mut lanes, stop, cap);

    assert_eq!(runs.len(), w);
    for (i, (lane, expect)) in lanes.into_iter().zip(&solo).enumerate() {
        let (walk, mut rng) = lane.into_parts();
        assert_eq!(
            runs[i], expect.run,
            "ObservedRun diverged (process {which}, lane {i}/{w})"
        );
        assert_eq!(
            walk.steps(),
            expect.walk_steps,
            "walk step count diverged (process {which}, lane {i}/{w})"
        );
        assert_eq!(walk.current(), expect.walk_current);
        assert_eq!(
            rng.next_u64(),
            expect.next_draw,
            "RNG consumption diverged (process {which}, lane {i}/{w})"
        );
    }
    for (i, ((mut cover, rec), expect)) in banks.into_iter().zip(&solo).enumerate() {
        assert_eq!(
            rec.steps, expect.steps,
            "Step stream diverged (process {which}, lane {i}/{w})"
        );
        assert_eq!(
            cover.finish(),
            expect.cover,
            "cover metrics diverged (process {which}, lane {i}/{w})"
        );
    }
}

#[test]
fn seeded_equivalence_all_processes_times_all_widths() {
    let mut graph_rng = SmallRng::seed_from_u64(1);
    let g = generators::connected_random_regular(60, 4, &mut graph_rng).unwrap();
    for which in 0..8 {
        for w in [1usize, 2, 4, 8] {
            assert_interleave_equivalence(&g, which, w, 11, StopWhen::AllSatisfied, 10_000_000);
        }
    }
}

#[test]
fn seeded_equivalence_under_truncation() {
    let g = generators::torus2d(6, 6);
    for cap in [0u64, 1, 17, 500] {
        for which in 0..8 {
            assert_interleave_equivalence(&g, which, 4, 9, StopWhen::Cap, cap);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graph shape × process × width × seed: every interleaved
    /// lane's `Step` stream, `ObservedRun` and RNG consumption equal the
    /// sequential kernel's for the same per-lane seed.
    #[test]
    fn interleaved_lanes_match_sequential_kernel(
        shape in 0usize..4,
        which in 0usize..8,
        width in 0usize..4,
        graph_seed in 0u64..300,
        run_seed in 0u64..300,
    ) {
        let w = [1usize, 2, 4, 8][width];
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
        assert_interleave_equivalence(&g, which, w, run_seed, StopWhen::AllSatisfied, 10_000_000);
        assert_interleave_equivalence(&g, which, w, run_seed, StopWhen::Cap, 64);
    }
}
