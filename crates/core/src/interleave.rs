//! Interleaved multi-trial driver: `W` independent observed walks on one
//! shared graph, advanced in lockstep.
//!
//! [`run_observed`](crate::observe::run_observed) is a serial dependency
//! chain: each step's neighbour-row fetch cannot begin before the previous
//! step decided where the walk went, so on graphs larger than the cache
//! the kernel spends most of its time stalled on one outstanding CSR row
//! load. When several *independent* trials walk the **same** graph, their
//! loads could all be in flight at once.
//!
//! [`run_observed_interleaved`] runs `W` such trials as [`Lane`]s of one
//! lockstep loop. Each round advances every still-running lane by exactly
//! one step, and before a lane steps, the driver issues the *next* lane's
//! neighbour-row load via [`eproc_graphs::Graph::prefetch_ports`]
//! (manual load scheduling — the safe-code prefetch). The memory-level
//! parallelism is structural: the `W` per-lane dependency chains are
//! independent, so the CPU can keep up to `W` row fetches in flight where
//! the sequential kernel keeps one.
//!
//! The engine's executor does **not** use this driver. Since the
//! E-process step state was compacted so that a step's only dependent
//! miss is the next vertex's rows (see [`crate::eprocess`]), the
//! sequential kernel already overlaps most of each step's loads, and two
//! lanes' working sets cost more cache than their overlap saves: the
//! plain loop is faster. The driver stays as a measured alternative —
//! the benchmark's two-lane probe times it against the sequential
//! kernel.
//!
//! # Bit-identical to the sequential kernel
//!
//! Interleaving changes *when* a lane's step executes relative to other
//! lanes, never *what* it computes: each lane owns its walk, its RNG and
//! its observer set, and takes the exact per-step sequence of
//! [`run_observed`](crate::observe::run_observed) — satisfaction check,
//! [`WalkProcess::advance_rng`],
//! step counter, [`ObserverSet::on_step_all`] — against exclusively its
//! own state. Per-lane step streams, RNG consumption and observer outputs
//! are therefore **bit-identical** to running each trial alone through
//! [`run_observed`](crate::observe::run_observed) with the same seed
//! (pinned by the `interleave_equivalence` proptests).

use crate::observe::{CompletionToken, ObservedRun, ObserverSet, StopWhen};
use crate::process::WalkProcess;
use rand::RngCore;

/// One trial of an interleaved run: a walk, its observer set and its own
/// RNG stream, plus the per-lane progress state the driver threads
/// through the lockstep loop.
///
/// The observer set is borrowed (`&mut O`) rather than owned so callers
/// keep their reusable observer banks: after
/// [`run_observed_interleaved`] returns, the borrow ends and the bank can
/// be `finish`ed and re-armed as usual.
pub struct Lane<'o, W, O: ?Sized, R> {
    walk: W,
    observers: &'o mut O,
    rng: R,
    token: CompletionToken,
    t: u64,
}

impl<'o, W, O, R> Lane<'o, W, O, R>
where
    W: WalkProcess,
    O: ObserverSet + ?Sized,
    R: RngCore,
{
    /// Bundles one trial's walk, observers and RNG into a lane.
    ///
    /// # Panics
    ///
    /// Panics if the observer set holds more than
    /// [`CompletionToken::MAX_OBSERVERS`] observers.
    pub fn new(walk: W, observers: &'o mut O, rng: R) -> Lane<'o, W, O, R> {
        let token = CompletionToken::arm(observers.count());
        Lane {
            walk,
            observers,
            rng,
            token,
            t: 0,
        }
    }

    /// `true` once this lane has stopped (per the same condition
    /// [`run_observed`](crate::observe::run_observed) uses).
    #[inline]
    fn finished(&self, check_satisfied: bool, cap: u64) -> bool {
        self.t >= cap || (check_satisfied && self.token.all_satisfied())
    }

    /// Decomposes the lane back into its walk and RNG (the observer
    /// borrow ends with the lane) — e.g. to inspect final walk state or
    /// RNG consumption after a run.
    pub fn into_parts(self) -> (W, R) {
        (self.walk, self.rng)
    }
}

/// Advances every lane in lockstep until all of them stop, returning one
/// [`ObservedRun`] per lane in lane order.
///
/// Per lane, this is exactly
/// [`run_observed`](crate::observe::run_observed): observers are armed at
/// the lane's current vertex, then each turn checks the stop condition,
/// advances the walk one step on the lane's own RNG and feeds the step to
/// the lane's observers — so per-lane trajectories, RNG consumption and
/// observer outputs are bit-identical to running the lanes one at a time.
/// Across lanes, each round gives every still-running lane one turn, and
/// a lane's turn starts by issuing the *next* runnable lane's
/// neighbour-row load ([`eproc_graphs::Graph::prefetch_ports`]) so that
/// row's fetch overlaps this lane's step — the software pipelining that
/// streams a large CSR through cache once per `lanes.len()` walks.
///
/// Lanes that stop early (observer satisfaction under
/// [`StopWhen::AllSatisfied`], or the cap) retire from the rotation;
/// the remaining lanes keep interleaving.
pub fn run_observed_interleaved<W, O, R>(
    lanes: &mut [Lane<'_, W, O, R>],
    stop: StopWhen,
    cap: u64,
) -> Vec<ObservedRun>
where
    W: WalkProcess,
    O: ObserverSet + ?Sized,
    R: RngCore,
{
    for lane in lanes.iter_mut() {
        let g = lane.walk.graph();
        let start = lane.walk.current();
        lane.observers.begin_all(g, start, &mut lane.token);
    }
    let check_satisfied = matches!(stop, StopWhen::AllSatisfied);
    let mut active: Vec<usize> = (0..lanes.len()).collect();
    while !active.is_empty() {
        let mut idx = 0;
        while idx < active.len() {
            let li = active[idx];
            if lanes[li].finished(check_satisfied, cap) {
                active.remove(idx);
                continue;
            }
            // Software pipelining: request the row the next runnable
            // lane's step will read while this lane's step executes.
            let next = active[(idx + 1) % active.len()];
            if next != li {
                let peek = &lanes[next];
                peek.walk.graph().prefetch_ports(peek.walk.current());
            }
            let lane = &mut lanes[li];
            let step = lane.walk.advance_rng(&mut lane.rng);
            lane.t += 1;
            lane.observers.on_step_all(lane.t, &step, &mut lane.token);
            idx += 1;
        }
    }
    lanes
        .iter()
        .map(|lane| ObservedRun {
            steps: lane.t,
            final_vertex: lane.walk.current(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::CoverTarget;
    use crate::observe::{run_observed, CoverObserver, Observer};
    use crate::srw::SimpleRandomWalk;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn single_lane_matches_run_observed() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = generators::connected_random_regular(60, 4, &mut rng).unwrap();
        for seed in [1u64, 2, 3] {
            let mut obs_seq = (CoverObserver::new(CoverTarget::Vertices),);
            let mut walk_seq = SimpleRandomWalk::new(&g, 0);
            let mut rng_seq = SmallRng::seed_from_u64(seed);
            let seq = run_observed(
                &mut walk_seq,
                &mut obs_seq,
                StopWhen::AllSatisfied,
                1_000_000,
                &mut rng_seq,
            );

            let mut obs_int = (CoverObserver::new(CoverTarget::Vertices),);
            let mut lanes = vec![Lane::new(
                SimpleRandomWalk::new(&g, 0),
                &mut obs_int,
                SmallRng::seed_from_u64(seed),
            )];
            let runs = run_observed_interleaved(&mut lanes, StopWhen::AllSatisfied, 1_000_000);
            drop(lanes);
            assert_eq!(runs, vec![seq], "seed {seed}");
            assert_eq!(obs_seq.0.finish(), obs_int.0.finish(), "seed {seed}");
        }
    }

    #[test]
    fn zero_cap_retires_every_lane_untouched() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::connected_random_regular(20, 4, &mut rng).unwrap();
        let mut obs_a = (CoverObserver::new(CoverTarget::Vertices),);
        let mut obs_b = (CoverObserver::new(CoverTarget::Vertices),);
        let mut lanes = vec![
            Lane::new(
                SimpleRandomWalk::new(&g, 0),
                &mut obs_a,
                SmallRng::seed_from_u64(1),
            ),
            Lane::new(
                SimpleRandomWalk::new(&g, 3),
                &mut obs_b,
                SmallRng::seed_from_u64(2),
            ),
        ];
        let runs = run_observed_interleaved(&mut lanes, StopWhen::Cap, 0);
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.steps == 0));
        assert_eq!(runs[0].final_vertex, 0);
        assert_eq!(runs[1].final_vertex, 3);
    }

    #[test]
    fn lanes_retire_independently_under_cap_stop() {
        // Different caps are not expressible per-lane, but AllSatisfied
        // lets lanes finish at different times: starting at different
        // vertices, cover times differ, and each lane must stop at its
        // own cover step exactly as a solo run would.
        let mut rng = SmallRng::seed_from_u64(77);
        let g = generators::connected_random_regular(40, 4, &mut rng).unwrap();
        let starts = [0usize, 7, 19];
        let mut solo_steps = Vec::new();
        for (i, &s) in starts.iter().enumerate() {
            let mut obs = (CoverObserver::new(CoverTarget::Vertices),);
            let mut walk = SimpleRandomWalk::new(&g, s);
            let mut r = SmallRng::seed_from_u64(100 + i as u64);
            let run = run_observed(
                &mut walk,
                &mut obs,
                StopWhen::AllSatisfied,
                1_000_000,
                &mut r,
            );
            solo_steps.push(run.steps);
        }
        let mut banks: Vec<_> = starts
            .iter()
            .map(|_| (CoverObserver::new(CoverTarget::Vertices),))
            .collect();
        let mut lanes: Vec<_> = starts
            .iter()
            .zip(banks.iter_mut())
            .enumerate()
            .map(|(i, (&s, obs))| {
                Lane::new(
                    SimpleRandomWalk::new(&g, s),
                    obs,
                    SmallRng::seed_from_u64(100 + i as u64),
                )
            })
            .collect();
        let runs = run_observed_interleaved(&mut lanes, StopWhen::AllSatisfied, 1_000_000);
        let steps: Vec<u64> = runs.iter().map(|r| r.steps).collect();
        assert_eq!(steps, solo_steps);
    }
}
