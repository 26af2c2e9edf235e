//! The lane driver: `W` independent observed walks on one shared graph,
//! advanced in lockstep.
//!
//! One walk is a serial dependency chain: each step's row fetch cannot
//! begin before the previous step decided where the walk went, so on
//! graphs larger than the cache a walk spends most of its time stalled
//! on one outstanding miss. When several *independent* trials walk the
//! **same** graph, their misses can all be in flight at once.
//!
//! [`run_observed_interleaved`] runs `W` such trials as [`Lane`]s: each
//! round advances every still-running lane by exactly one step, in lane
//! order. The overlap comes from the walk itself: a step that requests
//! the lines its *next* step reads through a prefetch hint and returns
//! without waiting on them — as [`crate::EProcess`] does, leaving its
//! twin unlink to the next step — lets the other lanes' steps run while
//! those lines load. A walk that issues no prefetches gains nothing from
//! a second lane and only doubles its state.
//!
//! [`run_observed`](crate::observe::run_observed) is the one-lane case of
//! this driver. The engine's executor runs the E-process's trials in two
//! lanes and every other walk's in one.
//!
//! # Bit-identical to one walk at a time
//!
//! Interleaving changes *when* a lane's step executes relative to other
//! lanes, never *what* it computes: each lane owns its walk, its RNG and
//! its observer set, and takes the exact per-step sequence — satisfaction
//! check, [`WalkProcess::advance`], step counter,
//! [`ObserverSet::on_step_all`] — against exclusively its own state.
//! Per-lane step streams, RNG consumption and observer outputs are
//! therefore **bit-identical** to running each trial alone through
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

    /// `true` once this lane has stopped: `cap` steps taken, or every
    /// observer satisfied when `check_satisfied` is set.
    #[inline]
    fn finished(&self, check_satisfied: bool, cap: u64) -> bool {
        self.t >= cap || (check_satisfied && self.token.all_satisfied())
    }

    /// What the lane's run has done so far.
    pub(crate) fn observed(&self) -> ObservedRun {
        ObservedRun {
            steps: self.t,
            final_vertex: self.walk.current(),
        }
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
/// Observers are armed at each lane's current vertex. Then each round
/// gives every still-running lane one turn: check the stop condition
/// (observer satisfaction under [`StopWhen::AllSatisfied`], and the
/// cap), advance the walk one step on the lane's own RNG and feed the
/// step to the lane's observers. A lane that stops sits out the rounds
/// that remain. Per lane this is exactly
/// [`run_observed`](crate::observe::run_observed), so trajectories, RNG
/// consumption and observer outputs are bit-identical to running the
/// lanes one at a time.
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
    drive(lanes, stop, cap);
    lanes.iter().map(Lane::observed).collect()
}

/// The lockstep loop of [`run_observed_interleaved`], leaving each lane's
/// result in the lane.
pub(crate) fn drive<W, O, R>(lanes: &mut [Lane<'_, W, O, R>], stop: StopWhen, cap: u64)
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
    loop {
        let mut running = false;
        for lane in lanes.iter_mut() {
            if lane.finished(check_satisfied, cap) {
                continue;
            }
            running = true;
            let step = lane.walk.advance(&mut lane.rng);
            lane.t += 1;
            lane.observers.on_step_all(lane.t, &step, &mut lane.token);
        }
        if !running {
            return;
        }
    }
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
