//! Shared fixtures of the equivalence tests: one enum over the eight
//! process kinds they sweep, and an observer recording the raw step
//! stream.

use eproc_core::choice::RandomWalkWithChoice;
use eproc_core::fair::{LeastUsedFirst, OldestFirst};
use eproc_core::observe::{HittingMetrics, Metrics, Observer};
use eproc_core::rotor::RotorRouter;
use eproc_core::rule::UniformRule;
use eproc_core::srw::{LazyRandomWalk, SimpleRandomWalk};
use eproc_core::vprocess::VProcess;
use eproc_core::{EProcess, Step, WalkProcess};
use eproc_graphs::{Graph, Vertex};
use rand::RngCore;

/// The process kinds the equivalence tests sweep, by index `0..8`.
pub enum TestWalk<'g> {
    EProcess(EProcess<'g, UniformRule>),
    Srw(SimpleRandomWalk<'g>),
    Lazy(LazyRandomWalk<'g>),
    Rotor(RotorRouter<'g>),
    Rwc(RandomWalkWithChoice<'g>),
    LeastUsed(LeastUsedFirst<'g>),
    VProcess(VProcess<'g>),
    Oldest(OldestFirst<'g>),
}

impl<'g> TestWalk<'g> {
    /// Process kind `which % 8`, started at vertex 0.
    pub fn build(g: &'g Graph, which: usize) -> TestWalk<'g> {
        match which % 8 {
            0 => TestWalk::EProcess(EProcess::new(g, 0, UniformRule::new())),
            1 => TestWalk::Srw(SimpleRandomWalk::new(g, 0)),
            2 => TestWalk::Lazy(LazyRandomWalk::new(g, 0)),
            3 => TestWalk::Rotor(RotorRouter::new(g, 0)),
            4 => TestWalk::Rwc(RandomWalkWithChoice::new(g, 0, 2)),
            5 => TestWalk::LeastUsed(LeastUsedFirst::new(g, 0)),
            6 => TestWalk::VProcess(VProcess::new(g, 0)),
            _ => TestWalk::Oldest(OldestFirst::new(g, 0)),
        }
    }
}

macro_rules! each_walk {
    ($self:expr, $w:ident => $body:expr) => {
        match $self {
            TestWalk::EProcess($w) => $body,
            TestWalk::Srw($w) => $body,
            TestWalk::Lazy($w) => $body,
            TestWalk::Rotor($w) => $body,
            TestWalk::Rwc($w) => $body,
            TestWalk::LeastUsed($w) => $body,
            TestWalk::VProcess($w) => $body,
            TestWalk::Oldest($w) => $body,
        }
    };
}

impl WalkProcess for TestWalk<'_> {
    fn graph(&self) -> &Graph {
        each_walk!(self, w => w.graph())
    }

    fn current(&self) -> Vertex {
        each_walk!(self, w => w.current())
    }

    fn steps(&self) -> u64 {
        each_walk!(self, w => w.steps())
    }

    fn advance<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Step {
        each_walk!(self, w => w.advance(rng))
    }
}

/// Records the raw step stream; always satisfied so it never extends the
/// run beyond the real observers' stop condition.
// Each test binary compiles its own copy of this module, and
// `observer_equivalence` records no steps.
#[allow(dead_code)]
#[derive(Debug, Default)]
pub struct StepRecorder {
    pub steps: Vec<Step>,
}

impl Observer for StepRecorder {
    fn begin(&mut self, _g: &Graph, _start: Vertex) {
        self.steps.clear();
    }

    fn on_step(&mut self, _t: u64, step: &Step) {
        self.steps.push(*step);
    }

    fn satisfied(&self) -> bool {
        true
    }

    fn finish(&mut self) -> Metrics {
        // A recorder has no metric of its own; report a trivially empty
        // hitting measurement.
        Metrics::Hitting(HittingMetrics {
            target: 0,
            steps_to_hit: None,
        })
    }
}
